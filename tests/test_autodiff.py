import contextlib
import ctypes
import gc
import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from wavetrain import autodiff as ad
from wavetrain.autodiff import SGDMomentum, Tensor
from wavetrain.errors import DimensionError, InputError, UsageError
from wavetrain.model import ModelConfig, build_model

from gradcheck import central_differences, relative_errors


def conv2d_oracle(x, w, stride, padding):
    """Direct nested-loop cross-correlation, float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, k, oh, ow))
    for b in range(n):
        for o in range(k):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, o, i, j] = (patch * w[o]).sum()
    return out


def conv2d_oracle_adjoint(x, w, g, stride, padding):
    """Adjoint of conv2d_oracle in x and in w, float64: the nested loop that
    sends each output cotangent back through the patch and kernel it read."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(n):
        for o in range(k):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    dxp[b, :, rows, cols] += g[b, o, i, j] * w[o]
                    dw[o] += g[b, o, i, j] * xp[b, :, rows, cols]
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw


def model_conv_shapes(monkeypatch, cfg):
    """((C, H, W), weight shape, stride, padding) of every conv2d the model runs."""
    shapes = set()
    conv2d = ad.conv2d

    def record(x, w, stride=1, padding=0):
        shapes.add((x.shape[1:], w.shape, stride, padding))
        return conv2d(x, w, stride, padding)

    with monkeypatch.context() as m:
        m.setattr(ad, "conv2d", record)
        build_model(cfg, seed=0).forward(Tensor(np.zeros((1, 3, 32, 32))), training=False)
    return sorted(shapes)


BATCHES = (1, 3, 8, 25, 32, 64)


def blocked_gemm(cols, w2, small):
    """(N, P, R) columns times w2[R, K] over conv2d's batch blocks of at most
    ad._BLOCK column elements, float64-accumulated when ``small``."""
    n, p, r = cols.shape
    step = max(1, ad._BLOCK // (p * r))
    out = np.empty((n, p, w2.shape[1]), dtype=np.float32)
    for s0 in range(0, n, step):
        blk = cols[s0 : s0 + step].reshape(-1, r)
        if small:
            prod = (blk.astype(np.float64) @ w2.astype(np.float64)).astype(np.float32)
        else:
            prod = blk @ w2
        out[s0 : s0 + step] = prod.reshape(-1, p, w2.shape[1])
    return out


def conv2d_reference(x, w, stride, padding):
    """conv2d's forward in plain numpy: channels-last zero padding, sliding
    windows flattened in (kh, kw, C) order, one GEMM per batch block
    (float64-accumulated when the columns fit in one block), returned as the
    NCHW view of (N, oh, ow, K) memory."""
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)  # (N, oh, ow, kh, kw, C)
    oh, ow = win.shape[1:3]
    cols = win.reshape(n, oh * ow, kh * kw * c)
    small = n * cols.shape[1] * cols.shape[2] <= ad._BLOCK
    out = blocked_gemm(cols, w.transpose(2, 3, 1, 0).reshape(-1, k), small)
    return out.reshape(n, oh, ow, k).transpose(0, 3, 1, 2)


def input_grad_reference(w, g, stride, padding, h, wd):
    """conv2d's input gradient in plain numpy: input pixel (y, x) of stride
    phase (a, b) = ((y + padding) % s, (x + padding) % s) sums
    g[(y + padding - i) / s, (x + padding - j) / s] W[:, :, i, j] over the taps
    i = a, a + s, ..., j = b, b + s, ... that land on the output grid, taps in
    decreasing (i, j) order. Each phase is one float32 GEMM per batch block
    over columns gathered by index arrays, one row per pixel of the phase."""
    n, k, oh, ow = g.shape
    _, c, kh, kw = w.shape
    gn = np.pad(g.transpose(0, 2, 3, 1), ((0, 0), (kh, kh), (kw, kw), (0, 0)))
    dx = np.zeros((n, h, wd, c), dtype=np.float32)
    for a in range(min(kh, stride)):
        for b in range(min(kw, stride)):
            ys = [y for y in range(h) if (y + padding) % stride == a]
            xs = [x for x in range(wd) if (x + padding) % stride == b]
            ti = list(range(a, kh, stride))[::-1]
            tj = list(range(b, kw, stride))[::-1]
            if not ys or not xs:
                continue
            # padded-g row of output row (y + padding - i) / s, zero outside
            rows = np.array([[(y + padding - i) // stride + kh for i in ti] for y in ys])
            cols_ = np.array([[(x + padding - j) // stride + kw for j in tj] for x in xs])
            patch = gn[:, rows[:, None, :, None], cols_[None, :, None, :]]  # (N, y, x, i, j, K)
            taps = w[:, :, ti][:, :, :, tj].transpose(2, 3, 0, 1).reshape(-1, c)
            prod = blocked_gemm(patch.reshape(n, len(ys) * len(xs), -1), taps, False)
            dx[:, ys[0] :: stride, xs[0] :: stride] = prod.reshape(n, len(ys), len(xs), c)
    return dx.transpose(0, 3, 1, 2)


def weight_grad_reference(x, g, wshape, stride, padding):
    """conv2d's weight gradient in plain numpy: the whole batch padded at
    once, then per batch block of the forward's columns the block's output
    gradient rows, transposed, times its columns (float64-accumulated when
    the columns fit in one block), the blocks' products summed in float32 in
    batch order."""
    n, c = x.shape[:2]
    k, _, kh, kw = wshape
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)  # (N, oh, ow, kh, kw, C)
    cols = win.reshape(n, -1, kh * kw * c)
    rows = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, -1, k)
    step = max(1, ad._BLOCK // (cols.shape[1] * cols.shape[2]))
    dw = None
    for s0 in range(0, n, step):
        a = rows[s0 : s0 + step].reshape(-1, k).T
        b = cols[s0 : s0 + step].reshape(-1, cols.shape[2])
        if n <= step:
            part = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        else:
            part = a @ b
        dw = part if dw is None else dw + part
    return dw.reshape(k, kh, kw, c).transpose(0, 3, 1, 2)


def assert_input_grad_matches_reference(rng, n, cin_hw, wshape, stride, padding):
    x = rng.standard_normal((n,) + tuple(cin_hw)).astype(np.float32)
    w = (rng.standard_normal(wshape) / np.sqrt(np.prod(wshape[1:]))).astype(np.float32)
    want = None
    for trainable in (False, True):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=trainable)
        out = ad.conv2d(xt, wt, stride=stride, padding=padding)
        if want is None:
            g = rng.standard_normal(out.shape).astype(np.float32)
            want = input_grad_reference(w, g, stride, padding, *cin_hw[1:])
        ad.mul(out, Tensor(g)).sum().backward()
        assert xt.grad.shape == want.shape
        assert xt.grad.tobytes() == want.tobytes(), (n, trainable)


class TestConvInputGradBytes:
    """conv2d's per-phase flipped-tap correlation equals the plain reference
    bit for bit."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("position", ["after_first_conv", "before_final_relu",
                                          "after_final_relu"])
    def test_model_shapes(self, rng, monkeypatch, position, width):
        cfg = ModelConfig(depth=1, width=width, num_classes=2, wap_position=position)
        for cin_hw, wshape, stride, padding in model_conv_shapes(monkeypatch, cfg):
            for n in BATCHES:
                assert_input_grad_matches_reference(rng, n, cin_hw, wshape, stride, padding)

    # (C, H, W), weight shape, stride, padding: stride 3, 2x2 and 3x1
    # kernels, odd and non-square maps, kernels below and above the stride
    @pytest.mark.parametrize("cin_hw,wshape,stride,padding", [
        ((3, 7, 7), (4, 3, 3, 3), 3, 1),
        ((4, 13, 13), (3, 4, 3, 3), 3, 0),
        ((2, 5, 5), (3, 2, 1, 1), 3, 0),
        ((5, 9, 11), (6, 5, 2, 2), 1, 0),
        ((5, 9, 9), (6, 5, 2, 2), 2, 1),
        ((3, 7, 9), (4, 3, 3, 3), 2, 1),
        ((3, 8, 8), (4, 3, 3, 1), 1, 0),
    ])
    def test_odd_shapes(self, rng, cin_hw, wshape, stride, padding):
        for n in BATCHES:
            assert_input_grad_matches_reference(rng, n, cin_hw, wshape, stride, padding)


class TestConvForwardBytes:
    """conv2d's forward, GEMMs written straight into channels-last memory,
    equals the plain reference bit for bit, layout included."""

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("position", ["after_first_conv", "before_final_relu",
                                          "after_final_relu"])
    def test_model_shapes(self, rng, monkeypatch, position, width):
        cfg = ModelConfig(depth=1, width=width, num_classes=2, wap_position=position)
        for cin_hw, wshape, stride, padding in model_conv_shapes(monkeypatch, cfg):
            for n in (1, 8, 32, 64):
                x = rng.standard_normal((n,) + tuple(cin_hw)).astype(np.float32)
                w = (rng.standard_normal(wshape) / np.sqrt(np.prod(wshape[1:]))).astype(
                    np.float32)
                got = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
                want = conv2d_reference(x, w, stride, padding)
                assert got.strides == want.strides, (cin_hw, wshape, n)
                assert got.tobytes() == want.tobytes(), (cin_hw, wshape, n)


class TestConv2d:
    def test_scalar_product(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = ad.conv2d(x, w, stride=1, padding=0)
        assert out.data.reshape(()) == np.float32(6.0)

    def test_sum_of_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, w, stride=1, padding=0)
        assert out.data.reshape(()) == np.float32(9.0)

    def test_matches_nested_loop_oracle(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        got = ad.conv2d(Tensor(x), Tensor(w), stride=1, padding=0).data
        want = conv2d_oracle(x, w, 1, 0)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_strided_padded_matches_oracle(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        got = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = conv2d_oracle(x, w, stride, padding)
        assert np.abs(got - want).max() < 1e-5

    def test_linearity_in_input(self, rng):
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        y = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        a, b = 0.7, -1.3
        lhs = ad.conv2d(Tensor(a * x + b * y), w, 1, 1).data
        rhs = a * ad.conv2d(Tensor(x), w, 1, 1).data + b * ad.conv2d(Tensor(y), w, 1, 1).data
        assert np.abs(lhs - rhs).max() < 1e-5

    # (N, C, H, K, kernel, stride, padding): at least three batch blocks of
    # ad._BLOCK im2col elements, the last one ragged
    @pytest.mark.parametrize("n,c,h,k,ksize,stride,padding", [
        (7, 16, 24, 2, 3, 1, 1),
        (7, 16, 48, 2, 3, 2, 1),
        (15, 64, 24, 2, 1, 1, 0),
        (19, 128, 32, 2, 1, 2, 0),
    ])
    def test_multi_block_matches_oracle(self, rng, n, c, h, k, ksize, stride, padding):
        out_h = (h + 2 * padding - ksize) // stride + 1
        per_sample = c * ksize * ksize * out_h * out_h
        step = ad._BLOCK // per_sample
        assert n > 2 * step and n % step
        x = rng.standard_normal((n, c, h, h)).astype(np.float32)
        w = (rng.standard_normal((k, c, ksize, ksize)) / np.sqrt(c * ksize * ksize)).astype(
            np.float32
        )
        g = rng.standard_normal((n, k, out_h, out_h)).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ad.conv2d(xt, wt, stride=stride, padding=padding)
        ad.mul(out, Tensor(g)).sum().backward()
        assert np.abs(out.data - conv2d_oracle(x, w, stride, padding)).max() < 1e-5
        dx, dw = conv2d_oracle_adjoint(x, w, g, stride, padding)
        assert relative_errors(xt.grad, dx).max() < 1e-3
        assert relative_errors(wt.grad, dw).max() < 1e-3

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))), 1, 0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))), 1, 0)


class TestConvBlockEdges:
    """conv2d pads one batch block at a time; its output, weight gradient and
    input gradient equal, bit for bit, the references that pad the whole
    batch at once. Batch sizes: one sample and the largest batch whose
    columns fit in one float64-accumulated block, then two float32 blocks
    and a one-sample remainder."""

    @pytest.mark.parametrize("ksize", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_whole_batch_padding(self, rng, ksize, stride, padding):
        c, h, k = 16, 24, 8
        out_h = (h + 2 * padding - ksize) // stride + 1
        step = ad._BLOCK // (c * ksize * ksize * out_h * out_h)
        for n in (1, step, 2 * step + 1):
            x = rng.standard_normal((n, c, h, h)).astype(np.float32)
            w = (rng.standard_normal((k, c, ksize, ksize)) / np.sqrt(c * ksize * ksize)).astype(
                np.float32)
            g = rng.standard_normal((n, k, out_h, out_h)).astype(np.float32)
            want = conv2d_reference(x, w, stride, padding)
            dx = input_grad_reference(w, g, stride, padding, h, h)
            for trainable in (False, True):
                xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=trainable)
                out = ad.conv2d(xt, wt, stride=stride, padding=padding)
                assert out.data.strides == want.strides, (n, trainable)
                assert out.data.tobytes() == want.tobytes(), (n, trainable)
                ad.mul(out, Tensor(g)).sum().backward()
                assert xt.grad.tobytes() == dx.tobytes(), (n, trainable)
            dw = weight_grad_reference(x, g, w.shape, stride, padding)
            assert wt.grad.tobytes() == dw.tobytes(), n


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# tracemalloc's allowance, beyond a conv forward's output, one padded block
# and one column block, for the views and shapes numpy and Python make: 12 KB
# measured, where padding the whole batch at once added 4.6 MB at (64, 16,
# 32, 32)
CONV_FORWARD_SLACK = 32 << 10


class TestConvMemory:
    @pytest.mark.parametrize("no_tape", [False, True], ids=["frozen", "no_grad"])
    def test_forward_holds_one_padded_block(self, rng, no_tape):
        # frozen: the weight takes no gradient; no_grad: it would, but no tape
        # is recorded, so neither keeps a padded input
        x = Tensor(rng.standard_normal((64, 16, 32, 32)).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32), requires_grad=no_tape)
        # one sample's 32x32 output pixels of 3*3*16 taps fill a block
        assert ad._BLOCK // (32 * 32 * 144) == 1
        out_bytes, padded_block, column_block = x.data.nbytes, 34 * 34 * 16 * 4, 32 * 32 * 144 * 4
        with ad.no_grad() if no_tape else contextlib.nullcontext():
            ad.conv2d(x, w, stride=1, padding=1)  # numpy's caches
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = ad.conv2d(x, w, stride=1, padding=1)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert not out.requires_grad
        assert peak < out_bytes + padded_block + column_block + CONV_FORWARD_SLACK

    def test_frozen_weight_keeps_no_column_matrix(self, rng):
        x = Tensor(rng.standard_normal((16, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, 3, 3)).astype(np.float32))
        im2col_bytes = 16 * 16 * 9 * 32 * 32 * 4
        tracemalloc.start()
        try:
            ad.conv2d(x, w, stride=1, padding=1).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None
        assert peak < im2col_bytes

    @pytest.mark.skipif(not _has_mallopt(), reason="needs glibc mallopt")
    def test_input_gradient_passes_do_not_fault_in_memory(self, rng):
        import resource

        model = build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0)
        for p in model.params.values():
            p.requires_grad = False
        x = rng.random((32, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 2, size=32)

        def input_gradient_pass():
            t = Tensor(x, requires_grad=True)
            ad.softmax_cross_entropy(model.forward(t, training=False), y).backward()

        for _ in range(2):
            input_gradient_pass()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            input_gradient_pass()
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestSimpleOps:
    def test_relu_values(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, np.array([0.0, 0.0, 2.0], dtype=np.float32))

    def test_avg_pool_constant(self):
        x = Tensor(np.full((1, 2, 8, 8), 3.5))
        out = ad.global_avg_pool(x)
        assert out.shape == (1, 2)
        assert np.allclose(out.data, 3.5)

    def test_avg_pool_rank_check(self):
        with pytest.raises(DimensionError):
            ad.global_avg_pool(Tensor(np.zeros((2, 6, 6))))

    def test_linear_shapes(self, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal(5).astype(np.float32))
        assert ad.linear(x, w, b).shape == (4, 5)
        with pytest.raises(DimensionError):
            ad.linear(x, Tensor(np.zeros((4, 5))), b)

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 1), (3, 2)])
    def test_elementwise_refuses_unequal_shapes(self, op, shape):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(shape, dtype=np.float32))
        with pytest.raises(DimensionError, match="equal shapes"):
            op(a, b)
        with pytest.raises(DimensionError, match="equal shapes"):
            op(b, a)

    def test_operators_take_tensors_only(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        for scalar in (5.0, 2, np.float32(1.5)):
            with pytest.raises(TypeError):
                t + scalar
            with pytest.raises(TypeError):
                scalar * t

    def test_negation_equals_multiplying_by_minus_one(self):
        x = np.array([0.0, -0.0, 1.5, -2.25, 1e-45, np.inf, np.nan], dtype=np.float32)
        g = np.array([0.0, -0.0, 3.0, -1.0, -1e-45, 2.0, -np.nan], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        out = -t
        out._backward(g)
        minus_one = np.float32(-1.0)
        assert out.data.tobytes() == (x * minus_one).tobytes()
        assert t.grad.tobytes() == (g * minus_one).tobytes()


class TestSoftmaxCrossEntropy:
    def test_uniform_two_class(self):
        loss = ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(2.0)) < 1e-6

    def test_stability_under_large_logits(self):
        loss = ad.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
        assert 0.0 <= loss.item() < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 10)).astype(np.float32)
        labels = rng.integers(0, 10, size=4)

        def oracle(z):
            # independent float64 reimplementation of the loss
            z = z - z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -logp[np.arange(len(labels)), labels].mean()

        t = Tensor(logits, requires_grad=True)
        ad.softmax_cross_entropy(t, labels).backward()
        fd = central_differences(oracle, logits, dtype=np.float64)
        assert relative_errors(t.grad, fd).max() < 1e-3


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_quadratic_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.mul(x, x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            x.backward()

    def test_no_recorded_ops_is_noop(self):
        x = Tensor([5.0])
        x.backward()  # leaf without requires_grad: nothing to do
        assert x.grad is not None  # seed landed on the scalar itself

    def test_accumulation_without_zeroing(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_two_layer_net_grads_match_finite_differences(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w1 = rng.standard_normal((4, 6)).astype(np.float32) * 0.5
        b1 = rng.standard_normal(6).astype(np.float32) * 0.1
        w2 = rng.standard_normal((6, 3)).astype(np.float32) * 0.5
        b2 = rng.standard_normal(3).astype(np.float32) * 0.1
        labels = np.array([0, 2, 1])

        def oracle(w1v, b1v, w2v, b2v):
            # independent float64 forward of the same two-layer net
            h = np.maximum(x.astype(np.float64) @ w1v + b1v, 0.0)
            z = h @ w2v + b2v
            z = z - z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -logp[np.arange(len(labels)), labels].mean()

        params = [Tensor(p, requires_grad=True) for p in (w1, b1, w2, b2)]
        h = ad.relu(ad.linear(Tensor(x), params[0], params[1]))
        ad.softmax_cross_entropy(ad.linear(h, params[2], params[3]), labels).backward()

        arrays = [a.astype(np.float64) for a in (w1, b1, w2, b2)]
        for i, p in enumerate(params):
            def f(v, i=i):
                vals = list(arrays)
                vals[i] = v
                return oracle(*vals)

            fd = central_differences(f, arrays[i], dtype=np.float64)
            assert relative_errors(p.grad, fd).max() < 1e-3


def _copying_accumulate(self, g, fresh=False):
    """Reference accumulation: every first gradient is copied."""
    g = np.asarray(g, dtype=np.float32)
    if self.grad is None:
        self.grad = g.copy()
    else:
        self.grad += g


def acceptance_batch(trainable=True):
    """The acceptance model (haar pooling after the stem conv), a batch of 8
    inputs that require grad, and their labels."""
    model = build_model(ModelConfig(depth=1, width=1, num_classes=2,
                                    wap_position="after_first_conv"), seed=0)
    for p in model.params.values():
        p.requires_grad = trainable
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 3, 32, 32)).astype(np.float32), requires_grad=True)
    return model, x, rng.integers(0, 2, size=8)


class TestGradientHandOver:
    """Ops hand freshly built gradients to ``_accumulate`` without a copy;
    the acceptance model must still get private, correctly summed gradients.
    Backward drops each node's gradient once its rule has run, so the tests
    take every node's gradient as its rule receives it, and the leaves'
    after backward."""

    def _backward(self, monkeypatch, trainable):
        """Every gradient of one backward: the one each rule received, in
        walk order, then each leaf's, in graph order; and the largest number
        of consumers any node has."""
        received = []
        make = ad._make

        def recording_make(data, parents, backward):
            def rule(g):
                received.append(g)
                backward(g)

            return make(data, parents, rule)

        model, x, y = acceptance_batch(trainable)
        with monkeypatch.context() as m:
            m.setattr(ad, "_make", recording_make)
            loss = ad.softmax_cross_entropy(model.forward(x, training=trainable), y)
        nodes = ad._topo_order(loss)
        consumers = {}
        for node in nodes:
            for p in node._parents:
                consumers[id(p)] = consumers.get(id(p), 0) + 1
        leaves = [t for t in nodes if t._backward is None]
        loss.backward()
        return received + [t.grad for t in leaves if t.grad is not None], max(consumers.values())

    @pytest.mark.parametrize("trainable", [False, True])
    def test_no_two_gradients_share_memory(self, monkeypatch, trainable):
        grads, _ = self._backward(monkeypatch, trainable)
        assert len(grads) > 20
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("trainable", [False, True])
    def test_grads_equal_copying_accumulation(self, monkeypatch, trainable):
        # the stem's pooled map feeds both bn1 and the residual shortcut, so
        # it sums a handed-over batch-norm gradient and a copied add gradient
        grads, most_consumers = self._backward(monkeypatch, trainable)
        assert most_consumers >= 2
        monkeypatch.setattr(ad._Node, "_accumulate", _copying_accumulate)
        ref, _ = self._backward(monkeypatch, trainable)
        assert len(ref) == len(grads)
        for got, want in zip(grads, ref):
            assert got.tobytes() == want.tobytes()

    def test_tensor_used_twice_gets_summed_gradient(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        t = Tensor(x, requires_grad=True)
        ad.add(t, t)._backward(g)
        assert np.array_equal(t.grad, g + g)
        # a handed-over relu gradient plus a copied add gradient
        t = Tensor(x, requires_grad=True)
        ad.mul(ad.add(ad.relu(t), t), Tensor(g)).sum().backward()
        assert np.array_equal(t.grad, g * (x > 0) + g)

    @pytest.mark.parametrize("trainable", [False, True])
    def test_second_backward_accumulates(self, trainable):
        model, x, y = acceptance_batch(trainable)
        tensors = [x] + (list(model.params.values()) if trainable else [])
        ad.softmax_cross_entropy(model.forward(x, training=False), y).backward()
        first = [t.grad.copy() for t in tensors]
        ad.softmax_cross_entropy(model.forward(x, training=False), y).backward()
        for t, g in zip(tensors, first):
            assert np.array_equal(t.grad, g + g)


# tracemalloc's allowance, beyond the leaves' gradients, for what numpy and
# Python keep after one forward and backward of the acceptance model (about
# 6-11 KB measured; the tape it releases is about 6 MB at batch 8)
RELEASE_SLACK = 64 << 10

# tracemalloc peak of one acceptance-model training step at batch 8 (forward,
# backward, SGD step): 3.60 MiB measured, where a tape that kept every
# activation until the walk peaked at 5.06 MiB
TRAIN_STEP_PEAK = 4_500_000


def rule_arrays(rule):
    """Every array a backward rule's closure holds, through the nested
    functions it calls."""
    arrays, stack, seen = [], [rule], set()
    while stack:
        fn = stack.pop()
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # a name this rule's mode never binds
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, types.FunctionType) and id(value) not in seen:
                seen.add(id(value))
                stack.append(value)
    return arrays


class TestTapeRelease:
    """A node keeps only the arrays its rule reads, so an activation dies
    when the forward drops it; backward frees each node's gradient, rule and
    parents once the rule has run, so only leaves keep ``grad`` and the graph
    dies with the walk."""

    @staticmethod
    def _loss():
        model, x, y = acceptance_batch()
        return model, x, ad.softmax_cross_entropy(model.forward(x, training=True), y)

    def test_only_leaves_keep_grad(self):
        model, x, loss = self._loss()
        nodes = ad._topo_order(loss)
        inner = [t for t in nodes if t._backward is not None]
        leaves = [t for t in nodes if t._backward is None]
        assert len(inner) > 20
        loss.backward()
        for t in inner:
            assert t.grad is None and t._parents == ()
        assert {id(t) for t in leaves if t.grad is not None} == \
            {id(t._node) for t in [x, *model.params.values()]}

    @pytest.mark.parametrize("training", [False, True], ids=["eval_frozen", "training"])
    def test_activations_die_with_the_forward(self, monkeypatch, training):
        # eval mode with frozen parameters is an attack's input-gradient
        # pass: its rules read relu masks and nothing else activation-sized
        outputs, relus = [], []
        make, relu = ad._make, ad.relu

        def recording_make(data, parents, backward):
            out = make(data, parents, backward)
            outputs.append(weakref.ref(out.data))
            return out

        def counting_relu(x):
            relus.append(None)
            return relu(x)

        model, x, y = acceptance_batch(trainable=training)
        params = {id(p.data) for p in model.params.values()}
        gc.disable()  # reference counting alone must free them
        try:
            with monkeypatch.context() as m:
                m.setattr(ad, "_make", recording_make)
                m.setattr(ad, "relu", counting_relu)
                logits = model.forward(x, training=training)
            assert len(outputs) > 20
            rules = [n._backward for n in ad._topo_order(logits) if n._backward is not None]
            held = [a for rule in rules for a in rule_arrays(rule) if id(a) not in params]
            alive = [r() for r in outputs[:-1] if r() is not None]
            # an output outlives the forward only if a rule reads it
            assert all(any(np.shares_memory(a, h) for h in held) for a in alive)
            activations = [a for a in held if a.ndim == 4]
            masks = [a for a in activations if a.dtype == np.bool_]
            assert len(masks) == len(relus) == 7
            if training:
                # the 1x1 projections' unpadded inputs and the classifier's
                # input, which the weight gradients read
                assert sorted(a.ndim for a in alive) == [2, 4, 4]
            else:
                assert alive == [] and len(activations) == len(masks)
            held_refs = [weakref.ref(a) for a in held]
            del rules, held, activations, masks, alive
            ad.softmax_cross_entropy(logits, y).backward()
            del logits
            assert [r for r in outputs + held_refs if r() is not None] == []
        finally:
            gc.enable()

    def test_training_step_peak_memory(self):
        model, x, y = acceptance_batch()
        opt = SGDMomentum(model.params.values(), lr=0.1, momentum=0.9, weight_decay=5e-4)

        def step():
            opt.zero_grad()
            ad.softmax_cross_entropy(model.forward(Tensor(x.data), training=True), y).backward()
            opt.step()

        step()  # the optimiser's velocities and numpy's caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < TRAIN_STEP_PEAK

    def test_memory_after_backward_is_the_leaf_gradients(self):
        model, x, y = acceptance_batch()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # held, as a training step holds it until its next loss
            loss = ad.softmax_cross_entropy(model.forward(x, training=True), y)
            loss.backward()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grads = x.grad.nbytes + sum(p.grad.nbytes for p in model.params.values())
        assert after - before <= grads + RELEASE_SLACK

    def test_second_walk_raises(self):
        _, _, loss = self._loss()
        loss.backward()
        with pytest.raises(UsageError, match="already walked"):
            loss.backward()
        # a new graph over a walked node reaches it too
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        h = ad.relu(x)
        h.sum().backward()
        with pytest.raises(UsageError, match="already walked"):
            ad.mul(h, h).sum().backward()
        assert np.array_equal(x.grad, np.ones(3, dtype=np.float32))


class TestGradientChecksAllPrimitives:
    """Reverse-mode vs central finite differences (h=1e-3, float32 forward)."""

    CASES = 5

    def _check(self, build, x0):
        t = Tensor(x0, requires_grad=True)
        build(t).backward()

        def f(v):
            return build(Tensor(v)).item()

        fd = central_differences(f, x0)
        rel = relative_errors(t.grad, fd)
        assert rel.max() < 1e-2
        assert rel.mean() < 1e-3

    def test_relu(self, rng):
        for _ in range(self.CASES):
            self._check(lambda t: ad.relu(t).sum(), rng.standard_normal((3, 5)).astype(np.float32))

    def test_mul(self, rng):
        for _ in range(self.CASES):
            other = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
            self._check(
                lambda t, o=other: ad.mul(t, o).sum(),
                rng.standard_normal((4, 4)).astype(np.float32),
            )

    @pytest.mark.parametrize("s", [0.5, -1.0, 3.7])
    def test_scale(self, rng, s):
        for _ in range(self.CASES):
            other = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
            self._check(
                lambda t, o=other: ad.mul(ad.scale(t, s), o).sum(),
                rng.standard_normal((4, 4)).astype(np.float32),
            )

    def test_conv2d_input(self, rng):
        for _ in range(self.CASES):
            w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 0.5)
            self._check(
                lambda t, w=w: ad.conv2d(t, w, stride=1, padding=1).sum(),
                rng.standard_normal((1, 2, 5, 5)).astype(np.float32),
            )

    def test_conv2d_weight(self, rng):
        for _ in range(self.CASES):
            x = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float32))
            self._check(
                lambda t, x=x: ad.conv2d(x, t, stride=2, padding=1).sum(),
                rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 0.5,
            )

    def test_avg_pool(self, rng):
        for _ in range(self.CASES):
            self._check(
                lambda t: ad.global_avg_pool(t).sum(),
                rng.standard_normal((2, 2, 4, 4)).astype(np.float32),
            )

    def test_linear_all_args(self, rng):
        for _ in range(self.CASES):
            w = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
            b = Tensor(rng.standard_normal(3).astype(np.float32))
            self._check(
                lambda t, w=w, b=b: ad.linear(t, w, b).sum(),
                rng.standard_normal((2, 4)).astype(np.float32),
            )


class TestBatchNorm:
    def test_eval_mode_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        rmean = np.zeros(3, dtype=np.float32)
        rvar = np.ones(3, dtype=np.float32)
        out = ad.batch_norm(x, gamma, beta, rmean, rvar, training=False)
        assert np.allclose(out.data, x.data / np.sqrt(1.0 + 1e-5), atol=1e-5)
        assert np.array_equal(rmean, np.zeros(3, dtype=np.float32))

    def test_training_mode_normalizes_and_updates(self, rng):
        x = rng.standard_normal((8, 3, 4, 4)).astype(np.float32) * 2 + 1
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        rmean = np.zeros(3, dtype=np.float32)
        rvar = np.ones(3, dtype=np.float32)
        out = ad.batch_norm(Tensor(x), gamma, beta, rmean, rvar, training=True)
        assert abs(out.data.mean()) < 1e-5
        assert abs(out.data.var() - 1.0) < 1e-3
        assert not np.allclose(rmean, 0.0)

    def test_training_gradient_matches_finite_differences(self, rng):
        x0 = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        gamma0 = (rng.standard_normal(3) * 0.3 + 1.0).astype(np.float32)
        beta0 = rng.standard_normal(3).astype(np.float32)

        # random readout weights: a plain sum would have zero input gradient
        # (per-channel mean and variance of the output are invariants)
        r = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)

        def oracle(xv, gv, bv):
            # independent float64 forward: training-mode normalization, then
            # the same weighted-sum readout
            xv = xv.astype(np.float64)
            mean = xv.mean(axis=(0, 2, 3), keepdims=True)
            var = xv.var(axis=(0, 2, 3), keepdims=True)
            xhat = (xv - mean) / np.sqrt(var + 1e-5)
            out = xhat * gv.reshape(1, -1, 1, 1) + bv.reshape(1, -1, 1, 1)
            return (out * r.astype(np.float64)).sum()

        xt = Tensor(x0, requires_grad=True)
        gt = Tensor(gamma0, requires_grad=True)
        bt = Tensor(beta0, requires_grad=True)
        out = ad.batch_norm(xt, gt, bt, np.zeros(3, np.float32), np.ones(3, np.float32),
                            training=True)
        ad.mul(out, Tensor(r)).sum().backward()

        g64, b64 = gamma0.astype(np.float64), beta0.astype(np.float64)
        fd_x = central_differences(lambda v: oracle(v, g64, b64), x0, dtype=np.float64)
        assert relative_errors(xt.grad, fd_x).max() < 1e-3
        fd_g = central_differences(lambda v: oracle(x0, v, b64), gamma0, dtype=np.float64)
        assert relative_errors(gt.grad, fd_g).max() < 1e-3
        fd_b = central_differences(lambda v: oracle(x0, g64, v), beta0, dtype=np.float64)
        assert relative_errors(bt.grad, fd_b).max() < 1e-3


    @pytest.mark.parametrize("trainable", [False, True])
    def test_eval_mode_bytes_match_formula(self, rng, trainable):
        # eval mode: out = x*scale + shift with the running statistics
        # folded in; dx = g * (gamma*inv_std), dgamma = sum(g * xhat),
        # dbeta = sum(g), both summed in float64
        x = rng.standard_normal((16, 4, 8, 8)).astype(np.float32)
        gamma = (rng.standard_normal(4) * 0.3 + 1.0).astype(np.float32)
        beta = rng.standard_normal(4).astype(np.float32)
        rmean = rng.standard_normal(4).astype(np.float32)
        rvar = (rng.random(4) + 0.5).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)

        inv_std = (1.0 / np.sqrt(rvar.astype(np.float64) + ad.BN_EPS)).astype(
            np.float32)[None, :, None, None]
        mean32 = rmean.astype(np.float32)[None, :, None, None]
        gam = gamma[None, :, None, None]
        scale = gam * inv_std
        want_out = x * scale + (beta[None, :, None, None] - mean32 * scale)
        xhat = (x - mean32) * inv_std
        want_dx = g * (gam * inv_std)
        want_dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        want_dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)

        xt = Tensor(x, requires_grad=True)
        gt = Tensor(gamma, requires_grad=trainable)
        bt = Tensor(beta, requires_grad=trainable)
        out = ad.batch_norm(xt, gt, bt, rmean.copy(), rvar.copy(), training=False)
        out._backward(g)
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == want_dx.tobytes()
        if trainable:
            assert gt.grad.tobytes() == want_dgamma.tobytes()
            assert bt.grad.tobytes() == want_dbeta.tobytes()
        else:
            assert gt.grad is None and bt.grad is None


class TestDeterminism:
    def test_identical_inputs_bit_identical_outputs(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = ad.conv2d(Tensor(x), Tensor(w), 1, 1).data
        b = ad.conv2d(Tensor(x.copy()), Tensor(w.copy()), 1, 1).data
        assert np.array_equal(a, b)


def _sgd_param(values):
    return Tensor(np.array(values, dtype=np.float32), requires_grad=True)


class TestSgdMomentum:
    def test_plain_sgd_when_momentum_zero(self):
        p = _sgd_param([1.0, -2.0])
        p.grad = np.array([0.5, 0.5], dtype=np.float32)
        SGDMomentum([p], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert np.allclose(p.data, [1.0 - 0.05, -2.0 - 0.05])

    def test_velocity_decays_geometrically(self):
        p = _sgd_param([0.0])
        opt = SGDMomentum([p], lr=0.1, momentum=0.5, weight_decay=0.0)
        v = opt.velocities[0]
        v[0] = 1.0
        for i in range(3):
            p.grad = np.zeros(1, dtype=np.float32)
            opt.step()
            assert abs(v[0] - 0.5 ** (i + 1)) < 1e-7

    def test_three_step_sequence_matches_scalar_recurrence(self):
        lr, mom, wd = 0.1, 0.9, 5e-4
        p = _sgd_param([0.7])
        opt = SGDMomentum([p], lr=lr, momentum=mom, weight_decay=wd)
        grads = [np.array([0.3], dtype=np.float32),
                 np.array([-0.2], dtype=np.float32),
                 np.array([0.05], dtype=np.float32)]

        # hand-rolled recurrence in float32
        pe = np.float32(0.7)
        ve = np.float32(0.0)
        for g in grads:
            ve = np.float32(mom) * ve + g[0] + np.float32(wd) * pe
            pe = pe - np.float32(lr) * ve
            p.grad = g
            opt.step()
            assert abs(float(p.data[0]) - float(pe)) < 1e-7

    @pytest.mark.parametrize("lr, mom, wd", [
        (0.0, 0.9, 0.0), (-0.1, 0.9, 0.0), (float("nan"), 0.9, 0.0),
        (0.1, -0.1, 0.0), (0.1, 1.0, 0.0), (0.1, float("nan"), 0.0),
        (0.1, 0.9, -1e-4), (0.1, 0.9, float("nan")),
    ])
    def test_refuses_bad_hyperparameters(self, lr, mom, wd):
        with pytest.raises(InputError):
            SGDMomentum([_sgd_param([0.0])], lr=lr, momentum=mom, weight_decay=wd)

    @pytest.mark.parametrize("kwargs", [{"lr": 1e300}, {"weight_decay": 1e300}])
    def test_refuses_hyperparameters_beyond_float32(self, kwargs):
        """Finite as Python floats, these step in float32 as inf."""
        with pytest.raises(InputError, match=next(iter(kwargs))):
            SGDMomentum([_sgd_param([0.0])], **{"lr": 0.1, **kwargs})

    def test_optimizer_class_steps_params(self, rng):
        p = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        opt = SGDMomentum([p], lr=0.1, momentum=0.0)
        before = p.data.copy()
        ad.mul(p, p).sum().backward()
        opt.step()
        assert np.allclose(p.data, before - 0.1 * 2.0 * before, atol=1e-6)
