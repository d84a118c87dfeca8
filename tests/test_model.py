import tracemalloc

import numpy as np
import pytest

from wavetrain import autodiff as ad
from wavetrain import model as model_module
from wavetrain.attacks import AttackConfig, eval_logits, pgd
from wavetrain.autodiff import Tensor
from wavetrain.errors import ConfigError, DimensionError
from wavetrain.model import (
    POOLING_VARIANTS, WAP_POSITIONS, ModelConfig, build_model, check_state, state_layout,
    state_size,
)
from wavetrain.wavelet import SUPPORTED_BASES

from gradcheck import relative_errors



def small_cfg(**kw):
    base = dict(depth=1, width=1, num_classes=10, wavelet_base="haar",
                wap_position="after_final_relu", pooling_variant="wap")
    base.update(kw)
    return ModelConfig(**base)


def eval_logits_oracle(model, x):
    """Independent float64 eval-mode forward: the logits.

    Mirrors the configured architecture directly from the parameter arrays,
    with the haar WAP (the even-even samples times 1/2) at any position.
    """
    P = {k: v.data.astype(np.float64) for k, v in model.params.items()}
    B = {k: v.astype(np.float64) for k, v in model.buffers.items()}
    x = np.asarray(x, dtype=np.float64)
    cfg = model.cfg
    assert cfg.wap_position == "disabled" or (cfg.wavelet_base == "haar"
                                              and cfg.pooling_variant == "wap")

    def conv(x, w, stride, pad):
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        kh, kw = w.shape[2:]
        oh = (x.shape[2] - kh) // stride + 1
        ow = (x.shape[3] - kw) // stride + 1
        out = np.zeros((x.shape[0], w.shape[0], oh, ow))
        for i in range(kh):
            for j in range(kw):
                patch = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
                out += np.einsum("nchw,kc->nkhw", patch, w[:, :, i, j])
        return out

    def bn(x, name):
        shape = (1, -1, 1, 1)
        xn = (x - B[f"{name}.mean"].reshape(shape)) / np.sqrt(
            B[f"{name}.var"].reshape(shape) + 1e-5
        )
        return xn * P[f"{name}.gamma"].reshape(shape) + P[f"{name}.beta"].reshape(shape)

    def haar_wap(x, position):
        if cfg.wap_position != position:
            return x
        blocks = x.reshape(x.shape[0], x.shape[1], x.shape[2] // 2, 2, x.shape[3] // 2, 2)
        # the four averaged Haar subbands telescope to the even-even sample
        return 0.5 * blocks[:, :, :, 0, :, 0]

    h = haar_wap(conv(x, P["stem.weight"], 1, 1), "after_first_conv")
    cin = 16
    for gi, (cout, stride) in enumerate(zip(cfg.group_channels(), (1, 2, 2))):
        for bi in range(cfg.depth):
            prefix = f"g{gi}.b{bi}"
            block_stride = stride if bi == 0 else 1
            o = np.maximum(bn(h, f"{prefix}.bn1"), 0.0)
            y = conv(o, P[f"{prefix}.conv1.weight"], block_stride, 1)
            y = np.maximum(bn(y, f"{prefix}.bn2"), 0.0)
            y = conv(y, P[f"{prefix}.conv2.weight"], 1, 1)
            if f"{prefix}.proj.weight" in P:
                h = y + conv(o, P[f"{prefix}.proj.weight"], block_stride, 0)
            else:
                h = y + h
        cin = cout
    h = haar_wap(bn(h, "bn_final"), "before_final_relu")
    h = haar_wap(np.maximum(h, 0.0), "after_final_relu")
    h = h.mean(axis=(2, 3))
    return h @ P["fc.weight"] + P["fc.bias"]


def eval_forward_oracle(model, x, labels):
    """Mean cross-entropy of ``eval_logits_oracle``, in float64, for FD checks."""
    z = eval_logits_oracle(model, x)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


def initialize_oracle(cfg, seed):
    """The state as the model drew it before it had a layout table:
    (name, array) pairs, parameters in draw order, then the buffers."""
    rng = np.random.default_rng(seed)
    params, buffers = {}, {}

    def conv(name, cout, cin, k):
        std = np.sqrt(2.0 / (cin * k * k))
        params[name] = (rng.standard_normal((cout, cin, k, k)) * std).astype(np.float32)

    def bn(name, c):
        params[f"{name}.gamma"] = np.ones(c, dtype=np.float32)
        params[f"{name}.beta"] = np.zeros(c, dtype=np.float32)
        buffers[f"{name}.mean"] = np.zeros(c, dtype=np.float32)
        buffers[f"{name}.var"] = np.ones(c, dtype=np.float32)

    conv("stem.weight", 16, 3, 3)
    cin = 16
    for gi, (cout, stride) in enumerate(zip(cfg.group_channels(), (1, 2, 2))):
        for bi in range(cfg.depth):
            prefix = f"g{gi}.b{bi}"
            block_in, block_stride = (cin, stride) if bi == 0 else (cout, 1)
            bn(f"{prefix}.bn1", block_in)
            conv(f"{prefix}.conv1.weight", cout, block_in, 3)
            bn(f"{prefix}.bn2", cout)
            conv(f"{prefix}.conv2.weight", cout, cout, 3)
            if block_stride != 1 or block_in != cout:
                conv(f"{prefix}.proj.weight", cout, block_in, 1)
        cin = cout
    bn("bn_final", cin)
    params["fc.weight"] = (rng.standard_normal((cin, cfg.num_classes))
                           * np.sqrt(2.0 / cin)).astype(np.float32)
    params["fc.bias"] = np.zeros(cfg.num_classes, dtype=np.float32)
    return list(params.items()) + [(f"buffer:{n}", a) for n, a in buffers.items()]


def param_count_oracle(cfg):
    """Closed-form parameter count of the wide residual network."""
    total = 3 * 16 * 9
    cin = 16
    for cout, stride in zip(cfg.group_channels(), (1, 2, 2)):
        for bi in range(cfg.depth):
            block_in = cin if bi == 0 else cout
            block_stride = stride if bi == 0 else 1
            total += 2 * block_in                      # bn1
            total += block_in * cout * 9               # conv1
            total += 2 * cout                          # bn2
            total += cout * cout * 9                   # conv2
            if block_stride != 1 or block_in != cout:  # projection shortcut
                total += block_in * cout
        cin = cout
    total += 2 * cin                                   # bn_final
    total += cin * cfg.num_classes + cfg.num_classes   # fc
    return total


class TestConfig:
    def test_wap_needs_base(self):
        with pytest.raises(ConfigError):
            ModelConfig(wavelet_base=None, wap_position="after_final_relu")

    def test_disabled_without_base_is_fine(self):
        ModelConfig(wavelet_base=None, wap_position="disabled")

    def test_bad_position(self):
        with pytest.raises(ConfigError):
            ModelConfig(wap_position="in_the_middle")

    @pytest.mark.parametrize("depth,width,num_classes",
                             [(1, 1, 2), (2, 1, 10), (1, 2, 7), (3, 3, 5), (4, 2, 100)])
    def test_state_size_is_the_layout_total(self, depth, width, num_classes):
        cfg = ModelConfig(depth=depth, width=width, num_classes=num_classes)
        assert state_size(cfg) == sum(int(np.prod(shape)) for _, shape, _ in state_layout(cfg))

    @pytest.mark.parametrize("kw", [dict(depth=10 ** 12), dict(width=10 ** 7),
                                    dict(num_classes=10 ** 12)])
    def test_state_beyond_physical_memory_refused_before_allocation(self, monkeypatch, kw):
        def no_layout(cfg):
            raise AssertionError("walked the state layout")

        monkeypatch.setattr(model_module, "state_layout", no_layout)
        with pytest.raises(ConfigError, match="physical memory"):
            ModelConfig(**kw)


EVERY_STAGE = [(base, position, variant)
               for position in WAP_POSITIONS
               for base in ((None,) if position == "disabled" else SUPPORTED_BASES)
               for variant in POOLING_VARIANTS]


class TestBuild:
    def test_shape_contract_disabled(self, rng):
        model = build_model(small_cfg(wavelet_base=None, wap_position="disabled"), seed=0)
        x = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
        assert model.forward(x).shape == (2, 10)

    @pytest.mark.parametrize("base,position,variant", EVERY_STAGE)
    def test_every_stage_runs_at_32(self, rng, base, position, variant):
        # at 32x32 every pool of every configuration sees an even map
        model = build_model(small_cfg(wavelet_base=base, wap_position=position,
                                      pooling_variant=variant), seed=0)
        x = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
        for training in (False, True):
            logits = model.forward(x, training=training).data
            assert logits.shape == (2, 10) and np.isfinite(logits).all()

    @pytest.mark.parametrize("position,expected", [
        ("after_final_relu", 4),
        ("before_final_relu", 4),
        ("after_first_conv", 4),
        ("disabled", 8),
    ])
    def test_pool_kernel_from_traced_sizes(self, position, expected, monkeypatch):
        cfg = small_cfg(wap_position=position,
                        wavelet_base=None if position == "disabled" else "haar")
        model = build_model(cfg, seed=0)
        sizes = []
        pool = ad.global_avg_pool

        def recording_pool(x):
            sizes.append(x.shape[2:])
            return pool(x)

        monkeypatch.setattr(ad, "global_avg_pool", recording_pool)
        model.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert sizes == [(expected, expected)]

    def test_wap_feature_map_is_4x4_before_avg_pool(self, rng):
        model = build_model(small_cfg(), seed=0)
        x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        features = model.features(x)
        # features are pre-wavelet-stage (8x8); the stage halves them to 4x4
        assert features.shape[2:] == (8, 8)
        from wavetrain.wavelet import wavelet_average_pool
        pooled = wavelet_average_pool(features, model.fb)
        assert pooled.shape[2:] == (4, 4)

    @pytest.mark.parametrize("position", ["after_first_conv", "before_final_relu",
                                          "after_final_relu"])
    def test_returned_features_are_the_head_leaf(self, rng, position):
        # features outside any tape, then the head under a tape from them:
        # backward from the logits stops at the features, so only they take
        # gradient, the input, the trunk and the classifier none
        model = build_model(small_cfg(wap_position=position), seed=0)
        x = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
        features = model.features(x)
        with ad.tape(features):
            logits = model.head(features)
        assert features._node._parents == () and logits._node._parents != ()
        logits.backward(ad.cross_entropy_rows(logits.data, np.array([1, 3]))[1])
        assert features.grad.shape == features.shape
        assert x.grad is None
        with_grad = {name for name, p in model.params.items() if p.grad is not None}
        assert with_grad == set()

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("position", WAP_POSITIONS)
    def test_features_trunk_records_no_tape(self, rng, monkeypatch, position, training):
        model = build_model(small_cfg(wap_position=position,
                                      wavelet_base=None if position == "disabled" else "haar"),
                            seed=0)
        outs = []
        for name in ("conv2d", "batch_norm"):
            def recording(*args, op=getattr(ad, name), **kwargs):
                outs.append(op(*args, **kwargs))
                return outs[-1]
            monkeypatch.setattr(ad, name, recording)
        x = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32))
        model.features(x, training=training)
        # the stem, 3 blocks of two convs and two norms, 2 projections, bn_final
        assert len(outs) == 16
        assert not any(out._node._parents for out in outs)

    def test_same_seed_bit_identical(self):
        a = build_model(small_cfg(), seed=42)
        b = build_model(small_cfg(), seed=42)
        assert set(a.params) == set(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a = build_model(small_cfg(), seed=1)
        b = build_model(small_cfg(), seed=2)
        assert any(
            not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
        )

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("position", WAP_POSITIONS)
    def test_state_matches_oracles(self, position, width, depth, seed):
        cfg = small_cfg(depth=depth, width=width, wap_position=position,
                        wavelet_base=None if position == "disabled" else "haar")
        want = initialize_oracle(cfg, seed)
        model = build_model(cfg, seed=seed)
        got = list(model.state_arrays())
        layout = list(state_layout(cfg))
        assert [n for n, _ in got] == [n for n, _ in want] == [n for n, _, _ in layout]
        assert [a.shape for _, a in want] == [shape for _, shape, _ in layout]
        for (name, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert sum(p.data.size for p in model.params.values()) == param_count_oracle(cfg)

    @pytest.mark.parametrize("edit,match", [
        pytest.param(lambda s: s + s[:1], "entry 39 'stem.weight' is extra", id="repeated"),
        pytest.param(lambda s: s[:-1], "entry 38 'buffer:bn_final.var' is missing",
                     id="missing"),
        pytest.param(lambda s: s[1:2] + s[:1] + s[2:], "entry 0 is 'g0.b0.bn1.gamma' where",
                     id="reordered"),
        pytest.param(lambda s: [(n, a.T) for n, a in s], "entry 0 'stem.weight' has shape",
                     id="reshaped"),
    ])
    def test_check_state_rejects_first_difference(self, edit, match):
        model = build_model(small_cfg(), seed=0)
        with pytest.raises(DimensionError, match=match):
            check_state(model.cfg, edit(list(model.state_arrays())))

    def test_check_state_stops_at_first_difference(self, monkeypatch):
        state = list(build_model(small_cfg(), seed=0).state_arrays())
        pulled = []
        layout = model_module.state_layout

        def counting_layout(cfg):
            for entry in layout(cfg):
                pulled.append(entry)
                yield entry

        monkeypatch.setattr(model_module, "state_layout", counting_layout)
        with pytest.raises(DimensionError, match="entry 7 is 'g1.b0.bn1.gamma'"):
            check_state(small_cfg(depth=300), state)
        assert len(pulled) == 8

    def test_ablation_twins_share_parameter_space(self):
        enabled = build_model(small_cfg(), seed=7)
        disabled = build_model(
            small_cfg(wavelet_base=None, wap_position="disabled"), seed=7
        )
        assert list(enabled.params) == list(disabled.params)
        for name in enabled.params:
            assert np.array_equal(enabled.params[name].data, disabled.params[name].data)


# tracemalloc rise of a 64-sample no-tape eval forward of ModelConfig(depth=1,
# width=1): 13.3 MiB measured, where convs that padded the whole batch, the
# trainable convs' backward state and a second map per BN+ReLU peaked at 21.7
EVAL_FORWARD_PEAK = 15 << 20


class TestForward:
    def test_no_tape_eval_forward_peak_memory(self, rng):
        model = build_model(ModelConfig(depth=1, width=1), seed=0)
        x = rng.random((64, 3, 32, 32)).astype(np.float32)
        eval_logits(model, x)  # numpy's caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = eval_logits(model, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < EVAL_FORWARD_PEAK
        # the in-place ReLUs of the no-tape forward give the taped bytes
        xt = Tensor(x)
        with ad.tape(xt):
            taped = model.forward(xt, training=False)
        assert taped._node._parents != () and logits.tobytes() == taped.data.tobytes()

    def test_zero_input_logits_equal_bias(self, rng):
        model = build_model(small_cfg(), seed=0)
        bias = rng.standard_normal(10).astype(np.float32)
        model.params["fc.bias"].data[...] = bias
        out = model.forward(Tensor(np.zeros((2, 3, 32, 32))), training=False)
        assert np.allclose(out.data, bias, atol=1e-6)

    def test_wap_differs_from_plain_subsampling(self, rng):
        # distinctness smoke check: wavelet stage vs identity stride-2 pick
        model = build_model(small_cfg(), seed=3)
        x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        features = model.features(x)
        from wavetrain.wavelet import wavelet_average_pool
        wap_out = wavelet_average_pool(features, model.fb).data
        subsample = features.data[:, :, 0::2, 0::2]
        assert not np.allclose(wap_out, subsample, atol=1e-4)

    def test_eval_forward_batch_order_independent(self, rng):
        model = build_model(small_cfg(), seed=5)
        x = rng.random((4, 3, 32, 32)).astype(np.float32)
        full = model.forward(Tensor(x)).data
        perm = np.array([2, 0, 3, 1])
        permuted = model.forward(Tensor(x[perm])).data
        assert np.allclose(full[perm], permuted, atol=1e-6)

    def test_eval_forward_deterministic(self, rng):
        model = build_model(small_cfg(), seed=5)
        x = rng.random((2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(model.forward(Tensor(x)).data, model.forward(Tensor(x)).data)

    def test_shape_mismatch_rejected(self):
        model = build_model(small_cfg(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((2, 1, 32, 32))))

    def test_input_of_another_size_rejected(self):
        # 64x64: every pool would see an even map, but the input is not 32x32;
        # an odd input at a stem pool; 28x28, whose final map is 7x7 at a
        # final pool. The one input check refuses each before any conv runs.
        cases = [({}, (64, 64))]
        cases += [(dict(wap_position="after_first_conv"), hw) for hw in ((33, 32), (32, 31))]
        cases += [(dict(wap_position=p), (28, 28)) for p in FINAL_POSITIONS]
        for kw, hw in cases:
            model = build_model(small_cfg(**kw), seed=0)
            with pytest.raises(DimensionError, match=r"\[N,3,32,32\]"):
                model.forward(Tensor(np.zeros((1, 3) + hw)))

    def test_lpf_variant_runs(self, rng):
        model = build_model(small_cfg(pooling_variant="lpf"), seed=0)
        x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        assert model.forward(x).shape == (1, 10)

    def test_input_gradient_matches_finite_differences(self, rng):
        model = build_model(small_cfg(), seed=9)
        x0 = rng.random((1, 3, 32, 32)).astype(np.float32)
        labels = np.array([3])

        xt = Tensor(x0)
        with ad.tape(xt):
            logits = model.forward(xt, training=False)
        logits.backward(ad.cross_entropy_rows(logits.data, labels)[1])

        def loss_at(v):
            return eval_forward_oracle(model, v.reshape(x0.shape), labels)

        flat_idx = rng.integers(0, x0.size, size=8)
        h = 1e-4  # float64 oracle: small step avoids relu-kink smoothing
        gmax = np.abs(xt.grad).max()
        for idx in flat_idx:
            vp = x0.astype(np.float64).reshape(-1).copy()
            vm = vp.copy()
            vp[idx] += h
            vm[idx] -= h
            fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
            got = float(xt.grad.reshape(-1)[idx])
            scale = max(abs(fd), abs(got), gmax * 0.05)
            assert abs(got - fd) / scale < 1e-2


class TestBaseAtFinalPosition:
    """Behind ``after_final_relu`` only the global average reads the pool,
    and it sees ½ the mean of the even-even pixels after any base's WAP and 2×
    the mean after any base's LPF (``tests/test_wavelet.py``,
    TestBaseUnderGlobalAverage). So there the base cannot change the logits;
    at the stem it does."""

    @pytest.mark.parametrize("variant", POOLING_VARIANTS)
    def test_logits_agree_across_bases_only_after_final_relu(self, rng, variant):
        x = Tensor(rng.random((4, 3, 32, 32)).astype(np.float32))
        for position, same in (("after_final_relu", True), ("after_first_conv", False)):
            logits = [build_model(small_cfg(wavelet_base=base, wap_position=position,
                                            pooling_variant=variant), seed=0)
                      .forward(x).data.astype(np.float64) for base in SUPPORTED_BASES]
            for base, got in zip(SUPPORTED_BASES[1:], logits[1:]):
                rel = np.abs(got - logits[0]).max() / np.abs(logits[0]).max()
                assert (rel <= 1e-6) == same, (position, base, rel)


class TestWholeModelOracle:
    """The float64 oracle against the model in eval mode at every haar WAP
    position and with the stage disabled: the logits, and the input gradient
    of the mean cross-entropy along random directions by central differences.
    Layout and kernel changes must keep these tolerances."""

    @pytest.mark.parametrize("position", WAP_POSITIONS)
    @pytest.mark.parametrize("n", [1, 17, 64])
    def test_logits_and_input_gradient(self, rng, position, n):
        model = build_model(small_cfg(num_classes=2, wap_position=position), seed=3)
        # running statistics from one training-mode forward, so every eval
        # batch norm has a shift and a scale
        model.forward(Tensor(rng.random((8, 3, 32, 32)).astype(np.float32)), training=True)
        x = rng.random((n, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 2, n)
        xt = Tensor(x)
        with ad.tape(xt):
            logits = model.forward(xt)
        logits.backward(ad.cross_entropy_rows(logits.data, labels)[1])

        want = eval_logits_oracle(model, x)
        assert np.abs(logits.data - want).max() < 1e-5 * np.abs(want).max()
        grad = xt.grad.astype(np.float64)
        h = 1e-6  # float64 oracle: a step this small crosses few relu kinks
        for _ in range(3):
            d = rng.standard_normal(x.shape)
            fd = (eval_forward_oracle(model, x + h * d, labels)
                  - eval_forward_oracle(model, x - h * d, labels)) / (2 * h)
            err = abs((grad * d).sum() - fd) / (np.linalg.norm(grad) * np.linalg.norm(d))
            assert err < 1e-4, (position, n, err)


STEM_HAAR = dict(depth=1, width=1, num_classes=2, wavelet_base="haar",
                 wap_position="after_first_conv")
FINAL_POSITIONS = ("after_final_relu", "before_final_relu")


def stem_weight_grad_oracle(x, g, c):
    """float64 weight gradient of the stem conv (3x3, pad 1) followed by a
    one-tap WAP at offset 0 with coefficient c: output cotangent g reaches
    stem pixel (2i, 2j) scaled by c*c and no other pixel."""
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (1, 1), (1, 1)))
    g = c * c * np.asarray(g, dtype=np.float64)
    oh, ow = g.shape[2:]
    dw = np.zeros((g.shape[1], x.shape[1], 3, 3))
    for i in range(3):
        for j in range(3):
            patch = xp[:, :, i : i + 2 * oh : 2, j : j + 2 * ow : 2]
            dw[:, :, i, j] = np.einsum("nkhw,nchw->kc", g, patch)
    return dw


def count_pools(monkeypatch):
    """Record the name of every wavelet pool the model calls."""
    pools = []

    def counted(pool):
        def run(x, fb):
            pools.append(pool.__name__)
            return pool(x, fb)
        return run

    for name in ("wavelet_average_pool", "wavelet_low_pass_pool"):
        monkeypatch.setattr(model_module, name, counted(getattr(model_module, name)))
    return pools


def record_stem(monkeypatch):
    """Record the stride of every stem conv and count wavelet pool calls."""
    strides = []
    conv2d = ad.conv2d

    def conv(x, w, stride=1, padding=0):
        if w.shape == (model_module.STEM_CHANNELS, 3, 3, 3):
            strides.append(stride)
        return conv2d(x, w, stride, padding)

    monkeypatch.setattr(ad, "conv2d", conv)
    return strides, count_pools(monkeypatch)


class TestDecimatedStem:
    """Haar WAP after the stem runs as a stride-2 stem conv and a scale.

    The logits keep the full graph's bytes wherever both stem convs take the
    same float32 or float64 path: at N <= 9 both fit one block, at N >= 38
    neither does (10 <= N <= 37 differ in the last bits). The input gradient
    agrees to float32 rounding but not bit for bit: the full graph's stride-1
    correlation sums the zero taps the pool leaves, in a GEMM whose partial
    sums OpenBLAS orders by its own depth."""

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_matches_conv_then_pool(self, rng, monkeypatch, n):
        model = build_model(ModelConfig(**STEM_HAAR), seed=0)
        with monkeypatch.context() as m:
            m.setattr(model_module, "wap_decimation", lambda fb: None)
            twin = build_model(ModelConfig(**STEM_HAAR), seed=0)
        # the cotangent that reaches the scaled stem map, for the dw oracle
        cotangents = []
        scale = ad.scale

        def recording_scale(t, s):
            y = scale(t, s)
            rule = y._backward

            def backward(g):
                cotangents.append(g.copy())
                rule(g)

            y._backward = backward
            return y

        monkeypatch.setattr(ad, "scale", recording_scale)
        x = rng.random((n, 3, 32, 32)).astype(np.float32)
        g = rng.standard_normal((n, 2)).astype(np.float32)
        got, want = [], []
        for net, out in ((model, got), (twin, want)):
            xt = Tensor(x)
            with ad.tape(xt, *net.params.values()):
                logits = net.forward(xt)
            logits.backward(g)
            out += [logits.data, xt.grad, net.params["stem.weight"].grad]
        assert got[0].tobytes() == want[0].tobytes()
        assert relative_errors(got[1], want[1]).max() < 1e-4
        (cotangent,) = cotangents
        c = 1.0 / np.sqrt(2.0)
        assert relative_errors(got[2], stem_weight_grad_oracle(x, cotangent, c)).max() < 1e-3
        assert relative_errors(got[2], want[2]).max() < 1e-3

    def test_runs_stride_two_and_no_pool(self, monkeypatch):
        model = build_model(ModelConfig(**STEM_HAAR), seed=0)
        strides, pools = record_stem(monkeypatch)
        model.forward(Tensor(np.zeros((2, 3, 32, 32))))
        assert strides == [2] and pools == []

    @pytest.mark.parametrize("kw,pool_calls", [
        (dict(pooling_variant="lpf"), 1),
        (dict(wavelet_base="db5"), 1),
        (dict(wavelet_base="bior3.1"), 1),
        (dict(wap_position="before_final_relu"), 1),
        (dict(wap_position="after_final_relu"), 1),
        (dict(wap_position="after_final_relu", pooling_variant="lpf"), 1),
        (dict(wavelet_base=None, wap_position="disabled"), 0),
    ])
    def test_other_configs_keep_conv_then_pool(self, monkeypatch, kw, pool_calls):
        # training mode: in eval mode a haar pool at a final position is
        # decimated too (TestDecimatedTail)
        model = build_model(ModelConfig(**{**STEM_HAAR, **kw}), seed=0)
        strides, pools = record_stem(monkeypatch)
        model.forward(Tensor(np.zeros((2, 3, 32, 32))), training=True)
        assert strides == [1] and len(pools) == pool_calls

    def test_eval_logits_and_input_gradient_match_conv_then_pool(self, rng, monkeypatch):
        model = build_model(ModelConfig(**STEM_HAAR), seed=4)
        monkeypatch.setattr(model_module, "wap_decimation", lambda fb: None)
        twin = build_model(ModelConfig(**STEM_HAAR), seed=4)
        x = rng.random((8, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 2, 8)
        outs = []
        for m in (model, twin):
            xt = Tensor(x)
            with ad.tape(xt):
                logits = m.forward(xt)
            logits.backward(ad.cross_entropy_rows(logits.data, labels)[1])
            outs.append((logits.data, xt.grad))
        assert outs[0][0].tobytes() == outs[1][0].tobytes()
        assert relative_errors(outs[0][1], outs[1][1]).max() < 1e-4

    def test_signed_zero_and_odd_subnormals_are_a_float32_halving(self):
        # the decimated stage is one float32 multiply by 0.5: -0.0 stays -0.0
        # and an odd subnormal's half, a tie, rounds to even; the full pool
        # adds float64 taps into +0.0 and rounds every such tie toward zero
        tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
        kept = np.array([[-0.0, tiny, 3 * tiny, -5 * tiny, -7 * tiny, 1.0, -0.75]],
                        dtype=np.float32)[None, None]
        half = kept * np.float32(0.5)
        model = build_model(ModelConfig(**STEM_HAAR), seed=0)
        kt = Tensor(kept)
        with ad.tape(kt):
            scaled = model._pool(kt, decimated=True)
        assert scaled.data.tobytes() == half.tobytes()
        assert np.signbit(scaled.data[0, 0, 0, 0])
        x = np.zeros((1, 1, 2, 2 * kept.shape[3]), dtype=np.float32)
        x[0, 0, 0, ::2] = kept[0, 0, 0]
        pooled = np.ascontiguousarray(model_module.wavelet_average_pool(Tensor(x), model.fb).data)
        moved = scaled.data.view(np.uint32) != pooled.view(np.uint32)
        assert list(np.flatnonzero(moved)) == [0, 2, 4]
        scaled.backward(kept)
        assert kt.grad.tobytes() == half.tobytes()


TAIL_HAAR = dict(depth=1, width=1, num_classes=10, wavelet_base="haar")


def record_tail(monkeypatch, model):
    """Record the strides of the last block's conv2 and projection, by name,
    and count wavelet pool calls."""
    prefix = model._blocks[-1][0]
    names = {id(model.params[f"{prefix}.{n}.weight"]): n
             for n in ("conv2", "proj") if f"{prefix}.{n}.weight" in model.params}
    strides = {n: [] for n in names.values()}
    conv2d = ad.conv2d

    def conv(x, w, stride=1, padding=0):
        if id(w) in names:
            strides[names[id(w)]].append(stride)
        return conv2d(x, w, stride, padding)

    monkeypatch.setattr(ad, "conv2d", conv)
    return strides, count_pools(monkeypatch)


class TestDecimatedTail:
    """In eval mode, haar WAP at a final position lets the last block run
    conv2 and its projection at twice their strides, then scale.

    The logits keep the full graph's bytes except where conv2d's blocking
    differs between the two graphs (width 1): at 8 <= N <= 29 the stride-2
    conv2 takes the float64 one-block path where the full conv runs float32
    blocks, and at N = 57 its last block holds one sample. The input gradient
    agrees to float32 rounding (see TestDecimatedStem), and PGD's signed steps
    give the same x_adv bytes at the batch sizes below."""

    @staticmethod
    def twins(monkeypatch, position, rng, **kw):
        """The model and its full-graph twin, with running statistics from
        one shared training-mode forward so bn_final's shift is not zero."""
        cfg = {**TAIL_HAAR, "wap_position": position, **kw}
        model = build_model(ModelConfig(**cfg), seed=4)
        with monkeypatch.context() as m:
            m.setattr(model_module, "wap_decimation", lambda fb: None)
            twin = build_model(ModelConfig(**cfg), seed=4)
        warm = rng.random((8, 3, 32, 32)).astype(np.float32)
        model.forward(Tensor(warm), training=True)
        for name, b in model.buffers.items():
            twin.buffers[name][...] = b
        return model, twin

    @pytest.mark.parametrize("position", FINAL_POSITIONS)
    @pytest.mark.parametrize("n", [1, 32, 64])
    def test_bytes_match_the_full_graph(self, monkeypatch, rng, position, n):
        model, twin = self.twins(monkeypatch, position, rng)
        x = rng.random((n, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, n)
        attack = AttackConfig(epsilon=0.031, step_size=2 / 255, steps=3, random_init=True)
        outs = []
        for m in (model, twin):
            xt = Tensor(x)
            with ad.tape(xt):
                logits = m.forward(xt)
            logits.backward(ad.cross_entropy_rows(logits.data, labels)[1])
            x_adv = pgd(m, x, labels, attack, seed=7).x_adv
            outs.append((logits.data.tobytes(), xt.grad, x_adv.tobytes()))
        assert outs[0][0] == outs[1][0] and outs[0][2] == outs[1][2]
        assert relative_errors(outs[0][1], outs[1][1]).max() < 1e-4

    @pytest.mark.parametrize("position", FINAL_POSITIONS)
    def test_runs_conv2_at_stride_two_proj_at_four_and_no_pool(self, monkeypatch, position):
        model = build_model(ModelConfig(**TAIL_HAAR, wap_position=position), seed=0)
        strides, pools = record_tail(monkeypatch, model)
        assert model.forward(Tensor(np.zeros((2, 3, 32, 32)))).shape == (2, 10)
        assert strides == {"conv2": [2], "proj": [4]} and pools == []

    @pytest.mark.parametrize("kw,forward_kw,pool_calls", [
        ({}, dict(training=True), 1),
        ({}, dict(features_then_head=True), 1),  # called on their own, as by Grad-CAM
        (dict(pooling_variant="lpf"), {}, 1),
        (dict(wavelet_base="db5"), {}, 1),
        (dict(depth=2), {}, 1),
        (dict(wap_position="before_final_relu", depth=2), {}, 1),
        (dict(wap_position="after_first_conv"), {}, 0),
        (dict(wavelet_base=None, wap_position="disabled"), {}, 0),
    ])
    def test_other_cases_keep_the_full_graph(self, monkeypatch, kw, forward_kw, pool_calls):
        model = build_model(ModelConfig(**{**TAIL_HAAR, "wap_position": "after_final_relu",
                                           **kw}), seed=0)
        strides, pools = record_tail(monkeypatch, model)
        x = Tensor(np.zeros((2, 3, 32, 32)))
        if forward_kw.get("features_then_head"):
            model.head(model.features(x))
        else:
            model.forward(x, **forward_kw)
        full = {"conv2": [1], "proj": [2]}
        assert strides == {name: full[name] for name in strides}
        assert len(pools) == pool_calls
