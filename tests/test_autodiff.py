import ctypes
import math
import tracemalloc

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


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestConvMemory:
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
        out = ad.avg_pool2d(x, 4)
        assert out.shape == (1, 2, 2, 2)
        assert np.allclose(out.data, 3.5)

    def test_avg_pool_kernel_must_divide(self):
        with pytest.raises(DimensionError):
            ad.avg_pool2d(Tensor(np.zeros((1, 1, 6, 6))), 4)

    def test_linear_shapes(self, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal(5).astype(np.float32))
        assert ad.linear(x, w, b).shape == (4, 5)
        with pytest.raises(DimensionError):
            ad.linear(x, Tensor(np.zeros((4, 5))), b)


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
                lambda t: ad.avg_pool2d(t, 2).sum(),
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


class TestDeterminism:
    def test_identical_inputs_bit_identical_outputs(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        a = ad.conv2d(Tensor(x), Tensor(w), 1, 1).data
        b = ad.conv2d(Tensor(x.copy()), Tensor(w.copy()), 1, 1).data
        assert np.array_equal(a, b)


class TestSgdMomentum:
    def test_plain_sgd_when_momentum_zero(self):
        p = np.array([1.0, -2.0], dtype=np.float32)
        g = np.array([0.5, 0.5], dtype=np.float32)
        v = np.zeros(2, dtype=np.float32)
        ad.sgd_momentum_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p, [1.0 - 0.05, -2.0 - 0.05])

    def test_velocity_decays_geometrically(self):
        p = np.zeros(1, dtype=np.float32)
        v = np.array([1.0], dtype=np.float32)
        for i in range(3):
            ad.sgd_momentum_step(p, np.zeros(1, dtype=np.float32), v, 0.1, 0.5, 0.0)
            assert abs(v[0] - 0.5 ** (i + 1)) < 1e-7

    def test_three_step_sequence_matches_scalar_recurrence(self):
        lr, mom, wd = 0.1, 0.9, 5e-4
        p = np.array([0.7], dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        grads = [np.array([0.3], dtype=np.float32),
                 np.array([-0.2], dtype=np.float32),
                 np.array([0.05], dtype=np.float32)]

        # hand-rolled recurrence in float32
        pe = np.float32(0.7)
        ve = np.float32(0.0)
        for g in grads:
            ve = np.float32(mom) * ve + g[0] + np.float32(wd) * pe
            pe = pe - np.float32(lr) * ve
            ad.sgd_momentum_step(p, g, v, lr, mom, wd)
            assert abs(float(p[0]) - float(pe)) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.sgd_momentum_step(
                np.zeros(2, dtype=np.float32),
                np.zeros(3, dtype=np.float32),
                np.zeros(2, dtype=np.float32),
                0.1, 0.9, 0.0,
            )

    def test_optimizer_class_steps_params(self, rng):
        p = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        opt = SGDMomentum([p], lr=0.1, momentum=0.0)
        before = p.data.copy()
        ad.mul(p, p).sum().backward()
        opt.step()
        assert np.allclose(p.data, before - 0.1 * 2.0 * before, atol=1e-6)
