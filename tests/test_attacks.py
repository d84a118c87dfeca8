import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrain import autodiff as ad
from wavetrain.attacks import (
    WHITE_BOX,
    AttackConfig,
    NesConfig,
    cw_pgd,
    eval_logits,
    fgsm,
    logits_oracle,
    mim,
    nes_attack,
    pgd,
)
from wavetrain.autodiff import Tensor
from wavetrain.data import synthetic_dataset
from wavetrain.errors import ConfigError, InputError
from wavetrain.evaluation import accuracy
from wavetrain.model import ModelConfig, build_model


class LinearToyModel:
    """logits = flatten(x) @ W + b for x[N,3,2,2]; the attack surface for
    closed-form checks. A conv whose kernel covers the whole input gives
    flatten(x) @ W as a 1x1 map, its global average passes that on, and a
    linear layer with an identity weight adds b."""

    def __init__(self, w, b):
        self.w = Tensor(w)
        self.b = Tensor(b)
        self._kernel = Tensor(w.T.reshape(w.shape[1], 3, 2, 2))
        self._identity = Tensor(np.eye(w.shape[1], dtype=np.float32))

    def forward(self, x, training=False):
        dots = ad.global_avg_pool(ad.conv2d(x, self._kernel))
        return ad.linear(dots, self._identity, self.b)


@pytest.fixture
def toy(rng):
    w = rng.standard_normal((12, 2)).astype(np.float32)
    b = np.zeros(2, dtype=np.float32)
    return LinearToyModel(w, b)


@pytest.fixture
def batch(rng):
    # interior points: the epsilon ball stays inside [0,1]
    x = (rng.random((4, 3, 2, 2)) * 0.4 + 0.3).astype(np.float32)
    y = np.zeros(4, dtype=np.int64)
    return x, y


def ball_and_box_ok(res, x, eps):
    return (
        np.abs(res.x_adv - x).max() <= eps + 1e-6
        and res.x_adv.min() >= 0.0
        and res.x_adv.max() <= 1.0
    )


class TestFgsm:
    def test_epsilon_zero_is_identity(self, toy, batch):
        x, y = batch
        res = fgsm(toy, x, y, AttackConfig(epsilon=0.0))
        assert np.array_equal(res.x_adv, x)
        assert res.grad_calls == 1  # the step runs and projects back onto x

    def test_logistic_closed_form_sign_pattern(self, toy, batch):
        x, y = batch
        eps = 0.1
        res = fgsm(toy, x, y, AttackConfig(epsilon=eps))
        # label 0 cross-entropy gradient for a linear model is p1*(w1 - w0)
        w = toy.w.data
        direction = np.sign(w[:, 1] - w[:, 0]).reshape(1, 3, 2, 2)
        want = np.clip(x + eps * direction, 0.0, 1.0)
        assert np.allclose(res.x_adv, want, atol=1e-7)

    def test_equals_single_step_pgd_bitwise(self, toy, batch):
        x, y = batch
        eps = 0.05
        a = fgsm(toy, x, y, AttackConfig(epsilon=eps))
        b = pgd(toy, x, y, AttackConfig(epsilon=eps, step_size=eps, steps=1,
                                        random_init=False))
        assert np.array_equal(a.x_adv, b.x_adv)

    def test_grad_call_accounting(self, toy, batch):
        x, y = batch
        assert fgsm(toy, x, y, AttackConfig(epsilon=0.01)).grad_calls == 1


class TestPgd:
    def test_epsilon_zero_identity_any_steps(self, toy, batch):
        x, y = batch
        res = pgd(toy, x, y, AttackConfig(epsilon=0.0, steps=5, random_init=True))
        assert np.array_equal(res.x_adv, x)

    def test_linear_model_saturates_at_ball_boundary(self, toy, batch):
        x, y = batch
        eps, alpha = 0.1, 0.03
        steps = int(np.ceil(eps / alpha)) + 1
        res = pgd(toy, x, y, AttackConfig(epsilon=eps, step_size=alpha,
                                          steps=steps, random_init=False))
        w = toy.w.data
        direction = np.sign(w[:, 1] - w[:, 0]).reshape(1, 3, 2, 2)
        assert np.allclose(res.x_adv - x, eps * direction, atol=1e-6)

    def test_final_loss_not_below_init_loss_on_linear_model(self, toy, batch):
        # signed ascent on a convex-along-path loss is monotone, so the
        # returned restart beats its own initialization
        x, y = batch
        for seed in range(3):
            cfg = AttackConfig(epsilon=0.08, step_size=0.02, steps=6,
                               random_init=True, restarts=1)
            res = pgd(toy, x, y, cfg, seed=seed)
            noise = np.random.default_rng(seed).uniform(
                -cfg.epsilon, cfg.epsilon, size=x.shape).astype(np.float32)
            init = np.clip(np.clip(x + noise, 0, 1), x - cfg.epsilon, x + cfg.epsilon)

            def ce(v):
                logits = toy.forward(Tensor(v)).data.astype(np.float64)
                z = logits - logits.max(axis=1, keepdims=True)
                logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
                return -logp[np.arange(len(y)), y]

            assert np.all(ce(res.x_adv) >= ce(init) - 1e-9)

    def test_restarts_pick_max_loss_candidate(self, toy, batch):
        x, y = batch
        one = pgd(toy, x, y, AttackConfig(epsilon=0.06, step_size=0.02, steps=4,
                                          random_init=True, restarts=1), seed=0)
        many = pgd(toy, x, y, AttackConfig(epsilon=0.06, step_size=0.02, steps=4,
                                           random_init=True, restarts=4), seed=0)

        def ce(v):
            logits = toy.forward(Tensor(v)).data.astype(np.float64)
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return -logp[np.arange(len(y)), y]

        assert np.all(ce(many.x_adv) >= ce(one.x_adv) - 1e-9)


class TestMim:
    def test_single_step_equals_fgsm_bitwise(self, toy, batch):
        x, y = batch
        eps = 0.07
        a = fgsm(toy, x, y, AttackConfig(epsilon=eps))
        b = mim(toy, x, y, AttackConfig(epsilon=eps, step_size=eps, steps=1,
                                        random_init=False, decay=1.0))
        assert np.array_equal(a.x_adv, b.x_adv)

    def test_decay_zero_matches_reference_loop(self, toy, batch):
        x, y = batch
        eps, alpha, steps = 0.09, 0.025, 4
        res = mim(toy, x, y, AttackConfig(epsilon=eps, step_size=alpha, steps=steps,
                                          random_init=False, decay=0.0))

        # step-by-step reference: sign of the L1-normalized gradient
        cur = x.copy()
        for _ in range(steps):
            t = Tensor(cur, requires_grad=True)
            logits = toy.forward(t)
            logits.backward(ad.cross_entropy_rows(logits.data, y)[1])
            g = t.grad
            norms = np.abs(g).sum(axis=(1, 2, 3), keepdims=True)
            unit = np.divide(g, norms, out=np.zeros_like(g), where=norms > 0)
            cur = np.clip(cur + alpha * np.sign(unit), 0.0, 1.0).astype(np.float32)
            cur = np.clip(cur, x - eps, x + eps).astype(np.float32)
        assert np.allclose(res.x_adv, cur, atol=1e-7)

    def test_decay_one_constant_gradient_matches_pgd(self, toy, batch):
        # the cross-entropy input gradient of a two-class linear model is
        # p_other * (w_other - w_label): a positive multiple of one direction,
        # so accumulated momentum never changes sign and MIM walks the PGD
        # trajectory
        x, y = batch
        cfg_kwargs = dict(epsilon=0.08, step_size=0.02, steps=4, random_init=False)
        a = pgd(toy, x, y, AttackConfig(**cfg_kwargs))
        b = mim(toy, x, y, AttackConfig(decay=1.0, **cfg_kwargs))
        assert np.array_equal(a.x_adv, b.x_adv)


class TestCwPgd:
    def test_epsilon_zero_identity(self, toy, batch):
        x, y = batch
        res = cw_pgd(toy, x, y, AttackConfig(epsilon=0.0, random_init=False))
        assert np.array_equal(res.x_adv, x)

    def test_misclassified_sample_still_returns_in_ball_point(self, rng):
        w = rng.standard_normal((12, 2)).astype(np.float32)
        model = LinearToyModel(w, np.zeros(2, dtype=np.float32))
        x = (rng.random((2, 3, 2, 2)) * 0.4 + 0.3).astype(np.float32)
        wrong = 1 - model.forward(Tensor(x)).data.argmax(axis=1)  # force margin <= 0
        cfg = AttackConfig(epsilon=0.05, step_size=0.02, steps=3, kappa=0.0,
                           random_init=True)
        res = cw_pgd(model, x, wrong, cfg)
        assert ball_and_box_ok(res, x, cfg.epsilon)
        assert (eval_logits(model, res.x_adv).argmax(axis=1) != wrong).all()

    def test_two_class_gradient_direction_matches_cross_entropy(self, toy, batch):
        # margins stay positive inside this small ball, so both losses give
        # the same sign pattern and the same iterates
        x, y = batch
        kwargs = dict(epsilon=0.02, step_size=0.005, steps=3, random_init=False)
        a = pgd(toy, x, y, AttackConfig(**kwargs))
        b = cw_pgd(toy, x, y, AttackConfig(kappa=100.0, **kwargs))
        assert np.array_equal(a.x_adv, b.x_adv)


class TestParameterGradients:
    @pytest.mark.parametrize("kind", list(WHITE_BOX))
    def test_wrapper_without_params_gets_no_parameter_gradient(self, kind):
        # a model object with only ``forward`` and ``cfg``: the attack cannot
        # see its parameters, and still leaves none of them a gradient
        model = build_model(ModelConfig(depth=1, width=1, num_classes=2), seed=0)
        wrapper = types.SimpleNamespace(forward=model.forward, cfg=model.cfg)
        ds = synthetic_dataset(2, 4, seed=2)
        cfg = AttackConfig(epsilon=0.03, steps=2, restarts=2)
        got = WHITE_BOX[kind](wrapper, ds.images, ds.labels, cfg, seed=3)
        assert [name for name, p in model.params.items() if p.grad is not None] == []
        want = WHITE_BOX[kind](model, ds.images, ds.labels, cfg, seed=3)
        assert got.x_adv.tobytes() == want.x_adv.tobytes()


class TestSuccess:
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("kind", list(WHITE_BOX))
    def test_success_is_misprediction_on_x_adv(self, boundary_wrn, kind, restarts):
        # accuracy under an attack is the share a fresh forward on the
        # returned batch still predicts right
        model, ds = boundary_wrn
        sub = ds.subset(np.arange(8))
        cfg = AttackConfig(epsilon=1e-3, step_size=5e-4, steps=2, restarts=restarts)
        acc = accuracy(model, sub, attack=cfg, attack_fn=WHITE_BOX[kind], seed=3)
        x_adv = WHITE_BOX[kind](model, sub.images, sub.labels, cfg, seed=3).x_adv
        fresh = eval_logits(model, x_adv).argmax(axis=1) != sub.labels
        assert 0 < fresh.sum() < len(sub)
        assert acc == (len(sub) - fresh.sum()) / len(sub)


class TestWork:
    """A white-box attack takes steps * restarts gradient passes at every
    epsilon, and one forward per restart besides only when it has restarts
    to choose between."""

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.03])
    @pytest.mark.parametrize("kind", list(WHITE_BOX))
    def test_gradient_passes_and_forwards(self, toy, batch, monkeypatch, kind, eps, restarts):
        x, y = batch
        cfg = AttackConfig(epsilon=eps, steps=3, restarts=restarts)
        forwards = []
        forward = toy.forward

        def counted(*args, **kwargs):
            forwards.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(toy, "forward", counted)
        res = WHITE_BOX[kind](toy, x, y, cfg, seed=3)
        # FGSM is one step and one restart, whatever the config says
        steps, restarts = (1, 1) if kind == "fgsm" else (cfg.steps, cfg.restarts)
        assert res.grad_calls == steps * restarts
        assert len(forwards) == steps * restarts + (restarts if restarts > 1 else 0)


class TestLabels:
    """Every attack checks its labels against the class count of the first
    logits it sees, before it reports a result."""

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("kind", list(WHITE_BOX))
    def test_white_box_rejects_out_of_range_labels(self, toy, batch, kind, eps):
        x, _ = batch
        with pytest.raises(InputError, match="labels"):
            WHITE_BOX[kind](toy, x, np.array([5, 7, 5, 7]), AttackConfig(epsilon=eps))

    def test_nes_rejects_out_of_range_labels(self, toy, batch):
        x, _ = batch
        with pytest.raises(InputError, match="labels"):
            nes_attack(logits_oracle(toy), x, np.array([5, 7, 5, 7]), NesConfig())

    @pytest.mark.parametrize("eps", [0.0, 0.03])
    @pytest.mark.parametrize("kind", list(WHITE_BOX))
    def test_white_box_rejects_an_empty_batch(self, toy, kind, eps):
        x = np.zeros((0, 3, 2, 2), dtype=np.float32)
        with pytest.raises(InputError, match="non-empty batch"):
            WHITE_BOX[kind](toy, x, np.zeros(0, dtype=np.int64), AttackConfig(epsilon=eps))

    def test_nes_rejects_an_empty_batch(self):
        # refused before any query, whatever the labels say
        def oracle(x):
            raise AssertionError("queried the oracle on an empty batch")

        x = np.zeros((0, 3, 32, 32), dtype=np.float32)
        with pytest.raises(InputError, match="non-empty batch"):
            nes_attack(oracle, x, np.array([7, 8, 9]), NesConfig())

    @pytest.mark.parametrize("kind", list(WHITE_BOX) + ["nes"])
    def test_wrong_label_count_rejected(self, toy, batch, kind):
        x, y = batch
        with pytest.raises(InputError, match="shape"):
            if kind == "nes":
                nes_attack(logits_oracle(toy), x, y[:3], NesConfig())
            else:
                WHITE_BOX[kind](toy, x, y[:3], AttackConfig(epsilon=0.0))


class TestNes:
    def test_epsilon_zero_fails_with_unchanged_input(self, toy, batch):
        x, _ = batch
        y = toy.forward(Tensor(x)).data.argmax(axis=1)  # correctly classified
        res = nes_attack(logits_oracle(toy), x, y, NesConfig(epsilon=0.0))
        assert np.array_equal(res.x_adv, x)
        assert not res.success.any()

    def test_query_budget_respected(self, toy, batch):
        x, y = batch
        cfg = NesConfig(epsilon=0.08, max_queries=200, samples_per_step=10)
        res = nes_attack(logits_oracle(toy), x, y, cfg, seed=1)
        assert (res.queries <= cfg.max_queries).all()
        assert (res.queries <= 10000).all()

    def test_breaks_a_weak_linear_model(self, toy, batch):
        x, y = batch
        cfg = NesConfig(epsilon=0.25, lr=0.05, fd_eta=0.01,
                        max_queries=4000, samples_per_step=10)
        res = nes_attack(logits_oracle(toy), x, y, cfg, seed=0)
        assert ball_and_box_ok(res, x, cfg.epsilon)
        assert res.success.mean() >= 0.5

    def test_budget_below_one_step_rejected(self):
        with pytest.raises(ConfigError):
            NesConfig(max_queries=10, samples_per_step=10)

    @pytest.mark.parametrize("field,value", [
        ("fd_eta", 0.0), ("fd_eta", -0.01), ("fd_eta", float("nan")), ("fd_eta", float("inf")),
        ("fd_eta", 1e300), ("epsilon", -0.01), ("epsilon", float("nan")),
        ("epsilon", float("inf")), ("epsilon", 1e39), ("lr", -0.01), ("lr", float("nan")),
        ("lr", float("inf")), ("lr", 1e39),
    ])
    def test_invalid_setting_rejected(self, field, value):
        """A zero finite-difference step would divide by zero and count NaN
        images as successes; the object refuses it before any query."""
        with pytest.raises(ConfigError, match=field):
            NesConfig(**{field: value})


@pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf"), 1e39])
def test_attack_config_rejects_invalid_epsilon(value):
    with pytest.raises(ConfigError, match="epsilon"):
        AttackConfig(epsilon=value)


@pytest.mark.parametrize("field", ["step_size", "decay", "kappa"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), 1e300])
def test_attack_config_rejects_invalid_setting(field, value):
    """A NaN step size used to return NaN images counted as successes, and a
    negative one descended the loss."""
    with pytest.raises(ConfigError, match=field):
        AttackConfig(epsilon=0.03, **{field: value})


def test_attack_config_zero_edges_accepted():
    cfg = AttackConfig(epsilon=0.0, step_size=0.0, decay=0.0, kappa=0.0)
    assert (cfg.step_size, cfg.decay, cfg.kappa) == (0.0, 0.0, 0.0)
    assert NesConfig(lr=0.0).lr == 0.0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["fgsm", "pgd", "mim", "cw", "nes"]),
    eps=st.sampled_from([0.0, 0.01, 0.05, 0.12, 0.3]),
    steps=st.integers(1, 4),
    random_init=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_ball_and_box_invariants_property(kind, eps, steps, random_init, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((12, 3)).astype(np.float32)
    model = LinearToyModel(w, np.zeros(3, dtype=np.float32))
    x = rng.random((3, 3, 2, 2)).astype(np.float32)  # spans [0,1): box binds
    y = rng.integers(0, 3, size=3)

    if kind == "nes":
        res = nes_attack(logits_oracle(model), x, y,
                         NesConfig(epsilon=eps, max_queries=60, samples_per_step=5),
                         seed=seed)
    else:
        cfg = AttackConfig(epsilon=eps, step_size=eps / 2 if eps else 0.01,
                           steps=steps, random_init=random_init)
        res = WHITE_BOX[kind](model, x, y, cfg, seed=seed)
    assert np.abs(res.x_adv - x).max() <= eps + 1e-6
    assert res.x_adv.min() >= 0.0 and res.x_adv.max() <= 1.0
